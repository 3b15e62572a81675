package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestDecodeRecordsRefusesEmptyAndUnknown: a report with no rows would
// gate nothing, so each figure refuses one; an unknown figure and a
// malformed file are errors too.
func TestDecodeRecordsRefusesEmptyAndUnknown(t *testing.T) {
	for _, fig := range []string{"negotiation", "migration", "serve", "failover", "partition", "scale"} {
		_, err := DecodeRecords(fmt.Appendf(nil, `{"figure": %q}`, fig))
		if err == nil || !strings.Contains(err.Error(), "not a "+fig+" report") {
			t.Errorf("empty %s report: got %v", fig, err)
		}
	}
	for _, blob := range []string{`{"figure": "contention"}`, `{}`, `not json`} {
		if _, err := DecodeRecords([]byte(blob)); err == nil {
			t.Errorf("%s: decoded", blob)
		}
	}
}
