package pm2

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/simtime"
)

// FuzzDecodeCheckpoint feeds the checkpoint decoder fuzzed image bodies
// and checks that it returns an error, never panics, and that whatever
// it accepts re-encodes, within the buffer Encode sized up front, to an
// image that decodes to an equal Checkpoint.
// Each body is resealed with its own digest before decoding, so the
// inputs get past the seal into the line parser.
//
// Seeds: a 4-node v1 capture, the same capture carrying a balancer
// section (v2), and truncations of both.
func FuzzDecodeCheckpoint(f *testing.F) {
	data, _ := runCheckpointed(f, Config{Nodes: 4}, 3*simtime.Millisecond)
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		f.Fatal(err)
	}
	ck.Balancer = &BalancerCheckpoint{
		Period: 2 * simtime.Millisecond, NextRoundAt: ck.Now, StaleAfter: simtime.Millisecond,
		Threshold: 2, MaxMoves: 2, Rounds: 1, Moves: 1,
	}
	ck.MissedBeats = make([]int, ck.Nodes)
	for _, body := range [][]byte{data[:len(data)-ckptDigestLen], ck.body()} {
		f.Add(body)
		for _, cut := range []int{len(body) / 3, len(body) * 2 / 3, len(body) - 1} {
			f.Add(body[:cut])
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if !bytes.HasSuffix(body, []byte("\n")) {
			body = append(body, '\n')
		}
		ck, err := DecodeCheckpoint(fmt.Appendf(body, "digest %016x\n", fnvSum(body)))
		if err != nil {
			return
		}
		data := ck.Encode()
		if stats, _ := json.Marshal(ck.Stats); cap(data) != ck.sizeBound(len(stats))+ckptDigestLen {
			t.Fatalf("Encode outgrew its size bound: %d bytes", len(data))
		}
		again, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if !reflect.DeepEqual(ck, again) {
			t.Fatalf("re-encoded checkpoint decodes differently:\n%+v\n%+v", ck, again)
		}
	})
}
