package sched

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
)

// TestPlanCloneIndependent pins the property the shared plan cache's
// copy-on-hit relies on: a clone is observationally identical to the
// original (byte-identical encoding, identical entity evaluations) while
// sharing no mutable state — exercising the clone's eval memo must leave the
// original's untouched.
func TestPlanCloneIndependent(t *testing.T) {
	cfg := hw.Default()
	plan, w, _ := scheduleModel(t, "skipnet", Adyna(), 16)

	h0, m0 := plan.CacheStats()
	cp := plan.Clone()
	if cp == plan {
		t.Fatal("Clone returned the receiver")
	}
	var a, b bytes.Buffer
	if err := plan.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := cp.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("clone encodes differently from the original")
	}

	// Drive evaluations through the clone only: the original's memo must
	// stay empty, proving the two plans share no cache.
	for _, seg := range cp.Segments {
		for _, op := range seg.Plans {
			lead := w.Graph.Op(op.Lead)
			if !lead.Dynamic || lead.Space[0] == 0 {
				continue
			}
			for k := range op.Options {
				if _, err := cp.EvaluateEntity(cfg, w.Graph, op, op.Options[k], lead.MaxUnits/2); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if h, m := cp.CacheStats(); h+m == 0 {
		t.Fatal("clone recorded no eval traffic")
	}
	if h, m := plan.CacheStats(); h != h0 || m != m0 {
		t.Fatalf("original's memo touched through the clone: hits %d->%d misses %d->%d", h0, h, m0, m)
	}
}

// TestPlanCloneEncodesIdentically pins the structural clone to the
// serialized form for every model under the Adyna, M-tile and full-kernel
// policies: a clone encodes to exactly the original's bytes. Under the
// full-kernel policy the original's dense stores are populated first; the
// clone must start without them.
func TestPlanCloneEncodesIdentically(t *testing.T) {
	cfg := hw.Default()
	names := append(models.Names(), "adavit", "ranet", "gcn")
	policies := map[string]Policy{"adyna": Adyna(), "mtile": MTile(), "full-kernel": FullKernelIdeal()}
	for _, name := range names {
		for polName, pol := range policies {
			plan, w, _ := scheduleModel(t, name, pol, 4)
			for _, seg := range plan.Segments {
				for _, op := range seg.Plans {
					if lead := w.Graph.Op(op.Lead); lead.Space[0] > 0 {
						if _, err := plan.EvaluateEntity(cfg, w.Graph, op, op.Options[0], lead.MaxUnits); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			cp := plan.Clone()
			var a, b bytes.Buffer
			if err := plan.Encode(&a); err != nil {
				t.Fatal(err)
			}
			if err := cp.Encode(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("%s/%s: clone encodes differently from the original", name, polName)
			}
			if cp.cache != nil {
				t.Fatalf("%s/%s: clone carries an eval cache", name, polName)
			}
			for _, seg := range cp.Segments {
				for _, op := range seg.Plans {
					for _, o := range op.Options {
						if o.dense != nil {
							t.Fatalf("%s/%s: clone carries a dense kernel store", name, polName)
						}
					}
				}
			}
		}
	}
}
