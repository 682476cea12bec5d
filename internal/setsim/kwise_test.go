package setsim

import (
	"math/rand"
	"testing"

	"repro/internal/tokenset"
)

// This file validates the DESIGN.md substitution claim for pkwise: the
// count-merge candidate generator produces exactly the candidate set of
// the original algorithm's k-wise signature probing. A reference
// signature generator is implemented here, combination hashing and
// all, and compared against the production condition on random
// workloads.

// classTokens returns the class-k tokens of the coverage prefix of s.
func classTokens(cfg Config, s tokenset.Set, t int) [][]int32 {
	p, _ := cfg.prefixInfo(s, t, make([]int, cfg.M))
	out := make([][]int32, cfg.M)
	for _, tok := range s[:p] {
		k := cfg.classOf(tok)
		out[k] = append(out[k], tok)
	}
	return out
}

// combinations invokes fn for every k-subset of toks.
func combinations(toks []int32, k int, fn func([]int32)) {
	combo := make([]int32, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(combo) == k {
			fn(combo)
			return
		}
		for i := start; i+k-len(combo) <= len(toks); i++ {
			combo = append(combo, toks[i])
			rec(i + 1)
			combo = combo[:len(combo)-1]
		}
	}
	rec(0)
}

func comboKey(combo []int32) string {
	b := make([]byte, 0, 4*len(combo))
	for _, tok := range combo {
		b = append(b, byte(tok), byte(tok>>8), byte(tok>>16), byte(tok>>24))
	}
	return string(b)
}

// signatureCandidates is the reference pkwise first step: an object is
// discovered at class k iff it shares a full k-wise signature (a
// k-combination of class-k prefix tokens) with the query.
func signatureCandidates(db *PKWiseDB, cfg Config, sets []tokenset.Set, q tokenset.Set) map[int32]bool {
	// Index: for each class k, every k-combination of every object's
	// class-k prefix tokens.
	type sigIdx map[string][]int32
	idx := make([]sigIdx, cfg.M)
	for k := 1; k < cfg.M; k++ {
		idx[k] = make(sigIdx)
	}
	for id, x := range sets {
		ct := classTokens(cfg, x, cfg.minThreshold(len(x)))
		for k := 1; k < cfg.M; k++ {
			combinations(ct[k], k, func(combo []int32) {
				key := comboKey(combo)
				idx[k][key] = append(idx[k][key], int32(id))
			})
		}
	}
	qct := classTokens(cfg, q, cfg.minThreshold(len(q)))
	lo, hi := cfg.sizeBounds(len(q))
	found := make(map[int32]bool)
	for k := 1; k < cfg.M; k++ {
		combinations(qct[k], k, func(combo []int32) {
			for _, id := range idx[k][comboKey(combo)] {
				if sz := len(sets[id]); sz >= lo && sz <= hi {
					found[id] = true
				}
			}
		})
	}
	_ = db
	return found
}

// countMergeClassViable reproduces the production discovery condition
// restricted to class boxes (the pkwise condition proper, without the
// suffix-box safety net).
func countMergeClassViable(db *PKWiseDB, q tokenset.Set) map[int32]bool {
	cfg := db.cfg
	plan, ok := db.plan(q, db.getScratch())
	if !ok {
		return nil
	}
	lo, hi := cfg.sizeBounds(len(q))
	m := cfg.M
	counts := make([]uint16, db.Len()*(m-1))
	touched := map[int32]bool{}
	for _, tok := range q[:plan.pq] {
		k := cfg.classOf(tok)
		for _, id := range db.posting(tok) {
			if sz := len(db.sets[id]); sz < lo || sz > hi {
				continue
			}
			counts[int(id)*(m-1)+k-1]++
			touched[id] = true
		}
	}
	out := map[int32]bool{}
	for id := range touched {
		base := int(id) * (m - 1)
		for k := 1; k < m; k++ {
			// Viable class box: t_k = k when the query prefix holds at
			// least k class-k tokens; classes below that can never be
			// viable (b_k ≤ cnt_q < t_k).
			if plan.cnt[k] >= k && int(counts[base+k-1]) >= k {
				out[id] = true
				break
			}
		}
	}
	return out
}

// TestKWiseSignatureEquivalence: the two candidate generators agree on
// random workloads, across measures and class counts.
func TestKWiseSignatureEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 10; trial++ {
		sets := genSets(rng, 150, 12, 200)
		var cfg Config
		if trial%2 == 0 {
			cfg = Config{Measure: Jaccard, Tau: 0.6 + 0.1*float64(trial%4), M: 4 + trial%3}
		} else {
			cfg = Config{Measure: Overlap, Tau: float64(2 + trial%5), M: 4 + trial%3}
		}
		db, err := NewPKWiseDB(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 10; probe++ {
			q := sets[rng.Intn(len(sets))]
			want := signatureCandidates(db, cfg, sets, q)
			got := countMergeClassViable(db, q)
			if len(got) != len(want) {
				t.Fatalf("cfg=%+v: count-merge %d candidates, signatures %d", cfg, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("cfg=%+v: signature candidate %d missed by count-merge", cfg, id)
				}
			}
		}
	}
}
