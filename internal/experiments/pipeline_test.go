package experiments

import (
	"strconv"
	"testing"
)

// TestPipelineShortensMakespan smoke-tests the pipelining experiment at tiny
// scale: the burst must finish in strictly fewer virtual cycles at depth 4
// than at depth 1.
func TestPipelineShortensMakespan(t *testing.T) {
	opt := tiny()
	opt.RC.Batches = 4 // 48 requests
	tb, err := Pipeline(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", len(tb.Rows), tb)
	}
	// Rows[0] is the makespan: [metric, depth-1 cycles, depth-4 cycles, gain].
	flat, err1 := strconv.ParseInt(tb.Rows[0][1], 10, 64)
	piped, err2 := strconv.ParseInt(tb.Rows[0][2], 10, 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable makespan row %v", tb.Rows[0])
	}
	if piped >= flat {
		t.Fatalf("pipelining did not shorten the makespan: %v", tb.Rows[0])
	}
}
