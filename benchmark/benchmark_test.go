package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// tiny shrinks every workload to a few hundred objects and the
// clock-sized pieces to milliseconds, so the whole set runs in seconds.
const tinyN = 500

var tinyScale = scale{round: 10 * time.Millisecond, roundOps: 48, passOps: 240, openLoop: 100 * time.Millisecond}

// declared is the shape of BENCHMARK.json the test needs.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkEmitted asserts that r carries exactly the declared metrics,
// each finite, in the declared unit and direction.
func checkEmitted(t *testing.T, r result, defs []metricDef, want []declaredMetric) {
	t.Helper()
	if len(defs) != len(want) || len(r.metrics) != len(want) {
		t.Fatalf("%s: %d metrics defined, %d emitted, BENCHMARK.json declares %d", r.workload, len(defs), len(r.metrics), len(want))
	}
	for i, w := range want {
		d := defs[i]
		if d.name != w.Name || d.unit != w.Unit || d.higher != (w.Better == "higher") || d.bound != w.Bound {
			t.Errorf("metric %d: defined as %+v, declared as %+v", i, d, w)
		}
		m, ok := r.metrics[w.Name]
		if !ok {
			t.Errorf("%s: %s not emitted", r.workload, w.Name)
		} else if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			t.Errorf("%s: %s = %v", r.workload, w.Name, m.v)
		}
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Errorf("%s: %d of %d ops failed", r.workload, r.failed, r.attempted)
	}
}

// exact reports whether a per-layer metric is a count that must repeat
// exactly for one seed. Allocation counts and wire bytes are left out:
// the runtime and the timings inside answers move them by a hair.
func exact(name string) bool {
	switch name {
	case "engine.shards", "backend.useful_cand_frac":
		return true
	}
	return strings.HasPrefix(name, "engine.join_") ||
		strings.HasSuffix(name, "_per_op") && !strings.HasPrefix(name, "server.")
}

// TestWorkloads runs all six workloads at tiny scale, untraced and
// traced, and checks them against BENCHMARK.json: every workload and
// metric it names is emitted once with a finite value, nothing fails,
// the exact counts repeat for one seed and differ between two.
func TestWorkloads(t *testing.T) {
	d := readDeclared(t)
	specs := workloads()
	if len(specs) != len(d.Workloads) {
		t.Fatalf("%d workloads defined, BENCHMARK.json declares %d", len(specs), len(d.Workloads))
	}
	out := t.TempDir()
	for i, s := range specs {
		if s.name != d.Workloads[i].Name || s.why != d.Workloads[i].Why {
			t.Errorf("workload %d: defined as %q (%s), declared as %q (%s)", i, s.name, s.why, d.Workloads[i].Name, d.Workloads[i].Why)
		}
		s = shrunk(s, tinyN)
		// The same seed twice on the first and last workload (one in
		// process, one over HTTP), two seeds on all.
		seeds := []int64{1, 2}
		if i == 0 || i == len(specs)-1 {
			seeds = []int64{1, 2, 1}
		}
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			r, err := runUntraced(s, 1, 0.05, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, r, endToEnd, d.EndToEnd)

			runs := make([]result, len(seeds))
			for k, seed := range seeds {
				if runs[k], err = runTraced(s, seed, out, tinyScale); err != nil {
					t.Fatal(err)
				}
				checkEmitted(t, runs[k], perLayer, d.PerLayer)
			}
			differ := false
			for _, def := range perLayer {
				if !exact(def.name) {
					continue
				}
				a, b := runs[0].metrics[def.name].v, runs[1].metrics[def.name].v
				differ = differ || a != b
				if len(runs) > 2 && runs[2].metrics[def.name].v != a {
					t.Errorf("%s: %v and %v for the same seed", def.name, a, runs[2].metrics[def.name].v)
				}
			}
			if !differ {
				t.Error("two seeds gave the same exact counts")
			}
			checkTrace(t, out+"/trace-"+s.name+".json")
		})
	}
}

// checkTrace asserts that the span file holds one span per layer and
// op, each inner span naming the layer outside it as parent.
func checkTrace(t *testing.T, path string) {
	traceOps := tinyScale.passOps
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Layers []string
		Spans  []span
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != traceOps*len(layers) {
		t.Fatalf("%d spans, want %d", len(tr.Spans), traceOps*len(layers))
	}
	for i, sp := range tr.Spans {
		l := i % len(layers)
		if sp.Op != i/len(layers) || sp.Name != layers[l] || sp.End < sp.Start || (l > 0 && sp.Parent != layers[l-1]) {
			t.Fatalf("span %d = %+v", i, sp)
		}
	}
}

// dropLast is an oracle that loses the last id of every answer.
type dropLast struct{ corpus }

func (c dropLast) linear(q engine.Query, tau float64, n int) []int64 {
	ids := c.corpus.linear(q, tau, n)
	return ids[:max(len(ids)-1, 0)]
}

// TestCorruptionCounts checks that a wrong answer is counted as a
// failed op, in the oracle checks and in the timed rounds alike.
func TestCorruptionCounts(t *testing.T) {
	e, err := prepare(shrunk(workloads()[0], tinyN), 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.checkOracles()
	if e.failed.Load() != 0 {
		t.Fatalf("%d failures before anything was corrupted", e.failed.Load())
	}

	ph := e.warmUp(kindSearch, tinyScale)
	ph.want[3] ^= 1
	e.measure(ph)
	if got := e.failed.Load(); got != 1 {
		t.Errorf("one corrupted expected answer counted as %d failures", got)
	}

	e.parts[0].corpus = dropLast{e.parts[0].corpus}
	before := e.failed.Load()
	e.checkOracles()
	if e.failed.Load() == before {
		t.Error("an oracle that disagrees with every answer counted no failure")
	}
}

func TestSpread(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 10], n=4) is [1.5, 3.0, 7.0].
	if got, want := spread([]float64{4, 1, 10, 3, 2}), (7.0-1.5)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
