package pm2

import (
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/progs"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// ckRingSrc is a ring traveller: it isomallocs r3 bytes of payload,
// then r1 times spins r2 iterations and hops to the next node.
const ckRingSrc = `
.program ckring
.string fmt "ring done on node %d\n"
main:
    enter 8
    store [fp-4], r1        ; hops remaining
    store [fp-8], r2        ; spin per hop
    mov   r1, r3
    callb isomalloc
loop:
    load  r3, [fp-8]
spin:
    loadi r4, 0
    beq   r3, r4, hop
    addi  r3, r3, -1
    br    spin
hop:
    load  r1, [fp-4]
    loadi r2, 0
    beq   r1, r2, done
    addi  r1, r1, -1
    store [fp-4], r1
    callb self_node
    addi  r1, r0, 1
    callb node_count
    mov   r2, r0
    mod   r1, r1, r2
    callb migrate
    br    loop
done:
    callb self_node
    mov   r2, r0
    loadi r1, fmt
    callb printf
    leave
    halt
`

// spawnTraveller queues a ckring thread on node: it isomallocs payload
// bytes, then hops times spins spin iterations and moves on.
func spawnTraveller(c *Cluster, node int, hops, spin, payload uint32) {
	entry, ok := c.im.EntryOf("ckring")
	if !ok {
		panic("ckring is not in the cluster's image")
	}
	c.At(node, func(n *Node) {
		th, err := n.sched.Create(entry, hops)
		if err != nil {
			panic(err)
		}
		th.Regs.R[2], th.Regs.R[3] = spin, payload
		n.kick()
	})
}

// ckRingImage returns the default program image plus ckring.
func ckRingImage() *isa.Image {
	im := progs.NewImage()
	asm.MustAssemble(im, ckRingSrc)
	return im
}

// ringCapture is a 1024-node mid-run capture shaped like the perfbench
// ring workload: one traveller on every even node, each carrying 8–32 KB
// of isomalloc data on 16 hops, checkpointed at 13 ms with every thread
// in flight. Built once; the codec benchmarks share it.
var ringCapture struct {
	once sync.Once
	cfg  Config
	im   *isa.Image
	ck   *Checkpoint
	data []byte
}

func ringCaptured(b *testing.B) (Config, *isa.Image, *Checkpoint, []byte) {
	b.Helper()
	rc := &ringCapture
	rc.once.Do(func() {
		rc.cfg = Config{Nodes: 1024, Workers: 2}
		rc.im = ckRingImage()
		c := New(rc.cfg, rc.im)
		r := rng.New(1)
		for node := 0; node < rc.cfg.Nodes; node += 2 {
			spawnTraveller(c, node, 16, 2000, uint32(r.Range(8<<10, 32<<10))&^3)
		}
		c.Engine().RunUntil(13 * simtime.Millisecond)
		ck, err := c.Checkpoint()
		if err != nil {
			panic(err)
		}
		rc.ck, rc.data = ck, ck.Encode()
	})
	return rc.cfg, rc.im, rc.ck, rc.data
}

func BenchmarkCheckpointEncode(b *testing.B) {
	_, _, ck, data := ringCaptured(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		ck.Encode()
	}
}

func BenchmarkCheckpointDecode(b *testing.B) {
	_, _, _, data := ringCaptured(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeCheckpoint(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestoreCluster(b *testing.B) {
	cfg, im, ck, _ := ringCaptured(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RestoreCluster(cfg, im, ck); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewCluster(b *testing.B) {
	cfg, im, _, _ := ringCaptured(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewChecked(cfg, im); err != nil {
			b.Fatal(err)
		}
	}
}
