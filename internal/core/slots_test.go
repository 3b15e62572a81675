package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/layout"
	"repro/internal/vmem"
)

// bitmapT shortens CheckSingleOwnership call sites.
type bitmapT = bitmap.Bitmap

func newSlots(t *testing.T, node, p int, dist Distribution, cache int) *NodeSlots {
	t.Helper()
	return NewNodeSlots(vmem.NewSpace(), NopCharger{}, NodeConfig{
		NodeID: node, NumNodes: p, Dist: dist, CacheCap: cache,
	})
}

// owner is the per-slot ownership rule each distribution's Runs
// enumerates in closed form: the oracle TestDistributions checks every
// node's initial bitmap against.
func owner(d Distribution, slot, p int) int {
	switch d := d.(type) {
	case RoundRobin:
		return slot % p
	case BlockCyclic:
		return (slot / d.K) % p
	case Partition:
		// p contiguous sub-areas of SlotCount/p slots; the last node
		// also takes the remainder, which is every slot when p > SlotCount.
		if per := layout.SlotCount / p; per > 0 {
			return min(slot/per, p-1)
		}
		return p - 1
	}
	panic(fmt.Sprintf("no ownership rule for %s", d.Name()))
}

// TestDistributions checks that, for every node, NewNodeSlots builds
// exactly the bitmap the per-slot rule gives; the nodes' bitmaps then
// cover every slot exactly once.
func TestDistributions(t *testing.T) {
	type tc struct {
		dist Distribution
		p    int
		name string
	}
	cases := []tc{
		{RoundRobin{}, 4, ""},
		{BlockCyclic{K: 8}, 4, ""},
		{Partition{}, 4, ""},
		{Partition{}, 3, ""}, // SlotCount not divisible by 3
		// More nodes than slots: every slot goes to the last node.
		{Partition{}, layout.SlotCount + 5, ""},
		// A block wider than the area: every slot goes to node 0.
		{BlockCyclic{K: math.MaxInt}, 4, ""},
	}
	dists := []Distribution{RoundRobin{}, Partition{}, BlockCyclic{K: 1}, BlockCyclic{K: 3}, BlockCyclic{K: 7}, BlockCyclic{K: 64}}
	for _, p := range []int{1, 2, 3, 7, 64, 1024, 4096} {
		for _, d := range dists {
			cases = append(cases, tc{d, p, fmt.Sprintf("%s,p=%d", d.Name(), p)})
		}
	}
	for _, c := range cases {
		if c.name == "" {
			c.name = c.dist.Name()
		}
		t.Run(c.name, func(t *testing.T) {
			slotsOf := make([][]int, c.p)
			for slot := 0; slot < layout.SlotCount; slot++ {
				n := owner(c.dist, slot, c.p)
				slotsOf[n] = append(slotsOf[n], slot)
			}
			union := bitmap.New(layout.SlotCount)
			for node := 0; node < c.p; node++ {
				got := NewNodeSlots(nil, NopCharger{}, NodeConfig{NodeID: node, NumNodes: c.p, Dist: c.dist}).Bitmap()
				if got.Count() != len(slotsOf[node]) {
					t.Fatalf("node %d owns %d slots, the rule gives it %d", node, got.Count(), len(slotsOf[node]))
				}
				for _, slot := range slotsOf[node] {
					if !got.Test(slot) {
						t.Fatalf("node %d does not own slot %d", node, slot)
					}
				}
				if got.Intersects(union) {
					t.Fatalf("node %d owns a slot an earlier node owns", node)
				}
				union.Or(got)
			}
			if n := union.Count(); n != layout.SlotCount {
				t.Fatalf("nodes own %d slots in all, want %d", n, layout.SlotCount)
			}
		})
	}
}

func TestRoundRobinNeverHasContiguousPair(t *testing.T) {
	// The property behind the paper's "every multi-slot allocation
	// negotiates under round-robin" observation (§5).
	ns := newSlots(t, 0, 2, RoundRobin{}, 0)
	if _, err := ns.AcquireRun(2); err != ErrNoSlots {
		t.Fatalf("AcquireRun(2) = %v, want ErrNoSlots", err)
	}
	if ns.Stats().RunSearchFail != 1 {
		t.Fatalf("stats = %+v", ns.Stats())
	}
}

func TestAcquireOneMapsSlot(t *testing.T) {
	ns := newSlots(t, 0, 2, RoundRobin{}, 0)
	idx, err := ns.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	if idx%2 != 0 {
		t.Fatalf("node 0 acquired slot %d not owned under RR", idx)
	}
	if ns.Bitmap().Test(idx) {
		t.Fatal("acquired slot still marked free")
	}
	if !ns.Space().IsMapped(layout.SlotBase(idx), layout.SlotSize) {
		t.Fatal("acquired slot not mapped")
	}
	st := ns.Stats()
	if st.Acquired != 1 || st.Mmaps != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReleaseWithoutCacheUnmaps(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 0)
	idx, err := ns.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.Release(idx, 1); err != nil {
		t.Fatal(err)
	}
	if ns.Space().IsMapped(layout.SlotBase(idx), 1) {
		t.Fatal("released slot still mapped with cache disabled")
	}
	if !ns.Bitmap().Test(idx) {
		t.Fatal("released slot not marked free")
	}
}

func TestSlotCacheAvoidsMmap(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 4)
	idx, err := ns.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.Release(idx, 1); err != nil {
		t.Fatal(err)
	}
	if ns.CachedSlots() != 1 {
		t.Fatalf("cached = %d", ns.CachedSlots())
	}
	if !ns.Space().IsMapped(layout.SlotBase(idx), layout.SlotSize) {
		t.Fatal("cached slot should stay mapped")
	}
	idx2, err := ns.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	if idx2 != idx {
		t.Fatalf("cache hit should reuse slot %d, got %d", idx, idx2)
	}
	st := ns.Stats()
	if st.CacheHits != 1 || st.Mmaps != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheCapRespected(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 2)
	var idxs []int
	for i := 0; i < 4; i++ {
		idx, err := ns.AcquireOne()
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, idx)
	}
	for _, idx := range idxs {
		if err := ns.Release(idx, 1); err != nil {
			t.Fatal(err)
		}
	}
	if ns.CachedSlots() != 2 {
		t.Fatalf("cached = %d, want cap 2", ns.CachedSlots())
	}
	st := ns.Stats()
	if st.Munmaps != 2 {
		t.Fatalf("stats = %+v, want 2 munmaps", st)
	}
}

func TestAcquireRunFirstFit(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 0)
	start, err := ns.AcquireRun(4)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("first-fit run = %d, want 0", start)
	}
	if !ns.Space().IsMapped(layout.SlotBase(start), 4*layout.SlotSize) {
		t.Fatal("run not fully mapped")
	}
	// Next run must come after.
	start2, err := ns.AcquireRun(2)
	if err != nil {
		t.Fatal(err)
	}
	if start2 != 4 {
		t.Fatalf("second run = %d, want 4", start2)
	}
}

func TestAcquireRunConsumesCachedSlots(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 8)
	// Seed the cache with slots 0 and 1.
	a, _ := ns.AcquireOne()
	b, _ := ns.AcquireOne()
	ns.Release(a, 1)
	ns.Release(b, 1)
	if ns.CachedSlots() != 2 {
		t.Fatalf("cached = %d", ns.CachedSlots())
	}
	start, err := ns.AcquireRun(3)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("run start = %d", start)
	}
	if ns.CachedSlots() != 0 {
		t.Fatal("cached slots not consumed by run")
	}
	if !ns.Space().IsMapped(layout.SlotBase(0), 3*layout.SlotSize) {
		t.Fatal("run not fully mapped")
	}
}

func TestBuySellRun(t *testing.T) {
	a := newSlots(t, 0, 2, RoundRobin{}, 0)
	b := newSlots(t, 1, 2, RoundRobin{}, 0)
	// Node 0 buys slot 1 (owned by node 1) to get a [0,2) run.
	if err := b.SellRun(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.BuyRun(1, 1); err != nil {
		t.Fatal(err)
	}
	if CheckSingleOwnership([]*bitmapT{a.Bitmap(), b.Bitmap()}) != -1 {
		t.Fatal("double ownership after buy/sell")
	}
	start, err := a.AcquireRun(2)
	if err != nil || start != 0 {
		t.Fatalf("post-purchase AcquireRun = %d, %v", start, err)
	}
}

func TestSellRunRejectsUnowned(t *testing.T) {
	b := newSlots(t, 1, 2, RoundRobin{}, 0)
	if err := b.SellRun(0, 1); err == nil {
		t.Fatal("selling an unowned slot must fail")
	}
}

func TestBuyRunRejectsOverlap(t *testing.T) {
	a := newSlots(t, 0, 2, RoundRobin{}, 0)
	if err := a.BuyRun(0, 1); err == nil {
		t.Fatal("buying an already-owned slot must fail")
	}
}

func TestSellRunEvictsCachedMapping(t *testing.T) {
	a := newSlots(t, 0, 1, RoundRobin{}, 4)
	idx, _ := a.AcquireOne()
	a.Release(idx, 1)
	if a.CachedSlots() != 1 {
		t.Fatal("expected cached slot")
	}
	if err := a.SellRun(idx, 1); err != nil {
		t.Fatal(err)
	}
	if a.Space().IsMapped(layout.SlotBase(idx), 1) {
		t.Fatal("sold slot must be unmapped locally")
	}
	if a.CachedSlots() != 0 {
		t.Fatal("sold slot still cached")
	}
}

func TestEvictInstallKeepBitmapUntouched(t *testing.T) {
	src := newSlots(t, 0, 2, RoundRobin{}, 0)
	dst := newSlots(t, 1, 2, RoundRobin{}, 0)
	idx, err := src.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	srcBits, dstBits := src.Bitmap().Count(), dst.Bitmap().Count()
	if err := src.Evict(idx, 1); err != nil {
		t.Fatal(err)
	}
	if err := dst.Install(idx, 1); err != nil {
		t.Fatal(err)
	}
	if src.Bitmap().Count() != srcBits || dst.Bitmap().Count() != dstBits {
		t.Fatal("migration changed a bitmap (paper §4.2 forbids this)")
	}
	if src.Space().IsMapped(layout.SlotBase(idx), 1) {
		t.Fatal("evicted slot still mapped at source")
	}
	if !dst.Space().IsMapped(layout.SlotBase(idx), layout.SlotSize) {
		t.Fatal("installed slot not mapped at destination")
	}
	// Releasing on the destination donates the slot there (paper §4.2:
	// "the destination node may eventually acquire slots that it did not
	// possess initially").
	if err := dst.Release(idx, 1); err != nil {
		t.Fatal(err)
	}
	if !dst.Bitmap().Test(idx) {
		t.Fatal("destination did not acquire the donated slot")
	}
	if CheckSingleOwnership([]*bitmapT{src.Bitmap(), dst.Bitmap()}) != -1 {
		t.Fatal("double ownership after donation")
	}
}

func TestAcquireAt(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 0)
	if err := ns.AcquireAt(10, 3); err != nil {
		t.Fatal(err)
	}
	if !ns.Space().IsMapped(layout.SlotBase(10), 3*layout.SlotSize) {
		t.Fatal("AcquireAt did not map")
	}
	if err := ns.AcquireAt(10, 1); err == nil {
		t.Fatal("AcquireAt on taken slots must fail")
	}
}

func TestDropCache(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 4)
	idx, _ := ns.AcquireOne()
	ns.Release(idx, 1)
	ns.DropCache()
	if ns.CachedSlots() != 0 || ns.Space().IsMapped(layout.SlotBase(idx), 1) {
		t.Fatal("DropCache left mappings")
	}
	if !ns.Bitmap().Test(idx) {
		t.Fatal("DropCache must not change ownership")
	}
}

func TestExhaustionReturnsErrNoSlots(t *testing.T) {
	// A 1-node partition where we steal all slots via SellRun, then ask.
	ns := newSlots(t, 0, 1, Partition{}, 0)
	if err := ns.SellRun(0, layout.SlotCount); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.AcquireOne(); err != ErrNoSlots {
		t.Fatalf("err = %v, want ErrNoSlots", err)
	}
}
