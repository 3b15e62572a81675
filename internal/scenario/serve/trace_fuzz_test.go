package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeServeTrace feeds the trace decoder fuzzed files and checks
// that it returns an error, never panics, and that whatever it accepts
// re-encodes to a file that decodes to an equal Trace.
//
// Seeds: a recorded 4-node trace, the same trace as a v1 file (no ckpt
// line), and truncations of both.
func FuzzDecodeServeTrace(f *testing.F) {
	reqs, err := DeriveSpec(1, 4).Synthesize(4)
	if err != nil {
		f.Fatal(err)
	}
	tr := &Trace{Policy: "work-stealing", Nodes: 4, Seed: 1, Gather: "delta", Arbiter: "chain", Requests: reqs}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	v2 := buf.String()
	v1 := strings.Replace(v2, fmt.Sprintf("pm2serve-trace v%d", TraceVersion), "pm2serve-trace v1", 1)
	v1 = strings.Replace(v1, "ckpt 0000000000000000\n", "", 1)
	for _, file := range []string{v2, v1} {
		f.Add([]byte(file))
		for _, cut := range []int{len(file) / 3, len(file) * 2 / 3, len(file) - 1} {
			f.Add([]byte(file[:cut]))
		}
	}

	f.Fuzz(func(t *testing.T, file []byte) {
		tr, err := Decode(bytes.NewReader(file))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Encode(&out); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(&out)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("re-encoded trace decodes differently:\n%+v\n%+v", tr, again)
		}
	})
}

// TestDecodeHugeRequestCount is the regression for a header that
// claims more requests than any slice can hold: the decoder must report
// the missing lines, not size an allocation from the claim and panic.
func TestDecodeHugeRequestCount(t *testing.T) {
	file := "pm2serve-trace v2\npolicy negotiation\nnodes 4\nseed 1\ngather delta\narbiter chain\n" +
		"ckpt 0000000000000000\nrequests 9223372036854775807\n"
	if _, err := Decode(strings.NewReader(file)); err == nil || !strings.Contains(err.Error(), "request 1/") {
		t.Fatalf("want a missing-request error, got %v", err)
	}
}
