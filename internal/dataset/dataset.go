// Package dataset provides deterministic synthetic stand-ins for the
// eight real datasets of the pigeonring paper's evaluation (§8.1).
// Real GIST/SIFT codes, Enron mails, DBLP records, IMDB names, PubMed
// titles, and the AIDS/Protein graph collections are not
// redistributable, so each generator reproduces the statistics that
// drive filtering behaviour — dimensionality, clusteredness, token or
// gram frequency skew, length distributions, and label alphabets, as
// each generator's comment records. All generators are pure functions
// of (n, seed).
package dataset

import (
	"math/rand"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/tokenset"
)

// --- Binary vector datasets (Hamming distance search) -----------------------

// binaryClustered generates d-dimensional binary vectors: a fraction of
// the vectors are noisy copies of planted cluster centers (spectral
// hashing codes of similar images collapse near each other), the rest
// are uniform background.
func binaryClustered(n, d, centers int, flipProb, clusteredFrac float64, seed int64) []bitvec.Vector {
	rng := rand.New(rand.NewSource(seed))
	cs := make([]bitvec.Vector, centers)
	for i := range cs {
		cs[i] = bitvec.Random(rng, d)
	}
	out := make([]bitvec.Vector, n)
	for i := range out {
		if rng.Float64() < clusteredFrac {
			v := cs[rng.Intn(centers)].Clone()
			for b := 0; b < d; b++ {
				if rng.Float64() < flipProb {
					v.Flip(b)
				}
			}
			out[i] = v
		} else {
			out[i] = bitvec.Random(rng, d)
		}
	}
	return out
}

// GIST returns n 256-dimensional binary vectors shaped like the
// paper's spectral-hashed GIST descriptors.
func GIST(n int, seed int64) []bitvec.Vector {
	return binaryClustered(n, 256, max(4, n/400), 0.08, 0.7, seed)
}

// SIFT returns n 512-dimensional binary vectors shaped like the
// paper's binarized SIFT features.
func SIFT(n int, seed int64) []bitvec.Vector {
	return binaryClustered(n, 512, max(4, n/400), 0.08, 0.7, seed+1)
}

// --- Token set datasets (set similarity search) ------------------------------

// zipfSets generates token sets with Zipf-skewed token frequencies and
// planted near-duplicates, relabeled into the global frequency order.
func zipfSets(n, avgLen, universe int, seed int64) []tokenset.Set {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(universe-1))
	raw := make([][]int32, n)
	for i := range raw {
		ln := int(float64(avgLen) * (0.5 + rng.Float64()))
		if ln < 3 {
			ln = 3
		}
		s := make([]int32, ln)
		for j := range s {
			s[j] = int32(zipf.Uint64())
		}
		raw[i] = s
	}
	// Near-duplicates: replace a small fraction of tokens of an
	// earlier set, so high Jaccard thresholds have non-trivial result
	// sets.
	for i := n / 2; i < n; i += 4 {
		src := raw[rng.Intn(n/2)]
		dup := append([]int32(nil), src...)
		repl := len(dup)/20 + 1
		for k := 0; k < repl; k++ {
			dup[rng.Intn(len(dup))] = int32(zipf.Uint64())
		}
		raw[i] = dup
	}
	dict := tokenset.BuildDictionary(raw)
	return dict.RelabelAll(raw)
}

// Enron returns n token sets with the Enron email shape: long sets
// (average ≈ 142 tokens before deduplication) over a large skewed
// vocabulary.
func Enron(n int, seed int64) []tokenset.Set {
	return zipfSets(n, 142, 40*142, seed)
}

// DBLP returns n token sets with the DBLP record shape: short sets
// (average ≈ 14 tokens) over a moderately sized vocabulary.
func DBLP(n int, seed int64) []tokenset.Set {
	return zipfSets(n, 14, 60*14, seed+2)
}

// --- String datasets (edit distance search) ----------------------------------

var (
	consonants = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "ch", "st", "th"}
	vowels     = []string{"a", "e", "i", "o", "u", "ai", "ou"}
)

func pseudoWord(rng *rand.Rand, syllables int) string {
	var sb strings.Builder
	for s := 0; s < syllables; s++ {
		sb.WriteString(consonants[rng.Intn(len(consonants))])
		sb.WriteString(vowels[rng.Intn(len(vowels))])
	}
	return sb.String()
}

func typo(rng *rand.Rand, s string) string {
	if len(s) < 2 {
		return s
	}
	b := []byte(s)
	switch pos := rng.Intn(len(b)); rng.Intn(3) {
	case 0: // substitution
		b[pos] = byte('a' + rng.Intn(26))
	case 1: // deletion
		b = append(b[:pos], b[pos+1:]...)
	default: // insertion
		b = append(b[:pos], append([]byte{byte('a' + rng.Intn(26))}, b[pos:]...)...)
	}
	return string(b)
}

// IMDB returns n person-name-like strings (average length ≈ 16) with
// planted misspelled variants — the entity-resolution workload of the
// paper's introduction.
func IMDB(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		first := pseudoWord(rng, 2+rng.Intn(2))
		last := pseudoWord(rng, 2+rng.Intn(2))
		out[i] = first + " " + last
	}
	for i := n / 2; i < n; i += 3 {
		s := out[rng.Intn(n/2)]
		for e := 0; e <= rng.Intn(3); e++ {
			s = typo(rng, s)
		}
		out[i] = s
	}
	return out
}

// PubMed returns n title-like strings (average length ≈ 101) built
// from a reusable pseudo-word vocabulary, with planted near-duplicate
// titles.
func PubMed(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed + 3))
	vocab := make([]string, 2500)
	for i := range vocab {
		vocab[i] = pseudoWord(rng, 2+rng.Intn(3))
	}
	out := make([]string, n)
	for i := range out {
		words := 10 + rng.Intn(8)
		parts := make([]string, words)
		for w := range parts {
			// Squared uniform skews toward frequent words.
			u := rng.Float64()
			parts[w] = vocab[int(u*u*float64(len(vocab)-1))]
		}
		out[i] = strings.Join(parts, " ")
	}
	for i := n / 2; i < n; i += 3 {
		s := out[rng.Intn(n/2)]
		for e := 0; e <= rng.Intn(6); e++ {
			s = typo(rng, s)
		}
		out[i] = s
	}
	return out
}

// --- Graph datasets (graph edit distance search) ------------------------------

// moleculeLike generates connected labeled graphs: a random spanning
// tree plus extra edges, with Zipf-skewed vertex labels (carbon
// dominates real molecules).
func moleculeLike(rng *rand.Rand, minV, maxV, vlabels, elabels int, extraEdgeFrac float64) *graph.Graph {
	nv := minV + rng.Intn(maxV-minV+1)
	g := graph.New(nv)
	zipf := rand.NewZipf(rng, 1.4, 4, uint64(vlabels-1))
	for v := 0; v < nv; v++ {
		g.SetVertexLabel(v, int32(zipf.Uint64()))
	}
	for v := 1; v < nv; v++ {
		g.AddEdge(v, rng.Intn(v), int32(rng.Intn(elabels)))
	}
	extra := int(extraEdgeFrac * float64(nv))
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(nv), rng.Intn(nv)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, int32(rng.Intn(elabels)))
		}
	}
	return g
}

func perturbGraph(rng *rand.Rand, g *graph.Graph, vlabels, elabels, edits int) *graph.Graph {
	out := g.Clone()
	for e := 0; e < edits; e++ {
		switch rng.Intn(3) {
		case 0:
			out.SetVertexLabel(rng.Intn(out.N()), int32(rng.Intn(vlabels)))
		case 1:
			es := out.Edges()
			if len(es) > 1 {
				ed := es[rng.Intn(len(es))]
				out.RemoveEdge(ed.U, ed.V)
			}
		default:
			u, v := rng.Intn(out.N()), rng.Intn(out.N())
			if u != v && !out.HasEdge(u, v) {
				out.AddEdge(u, v, int32(rng.Intn(elabels)))
			}
		}
	}
	return out
}

// AIDS returns n antivirus-screen-like compound graphs: 62 vertex
// labels (heavily skewed), 3 edge labels, tree-like sparsity. Sizes are
// scaled to 10–18 vertices (the paper's average is 26) to keep exact
// GED verification tractable for the pure-Go verifier.
func AIDS(n int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed + 4))
	out := make([]*graph.Graph, n)
	for i := range out {
		out[i] = moleculeLike(rng, 10, 18, 62, 3, 0.15)
	}
	for i := n / 2; i < n; i += 3 {
		src := out[rng.Intn(n/2)]
		out[i] = perturbGraph(rng, src, 62, 3, rng.Intn(4))
	}
	return out
}

// Protein returns n protein-structure-like graphs built exactly the
// way the paper builds its Protein dataset: a small pool of base
// graphs (600 in the paper) duplicated with random minor errors. Few
// labels (3 vertex / 5 edge) and higher density than AIDS.
func Protein(n int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed + 5))
	bases := make([]*graph.Graph, max(1, n/10))
	for i := range bases {
		bases[i] = moleculeLike(rng, 13, 18, 3, 5, 0.7)
	}
	out := make([]*graph.Graph, n)
	for i := range out {
		out[i] = perturbGraph(rng, bases[rng.Intn(len(bases))], 3, 5, rng.Intn(4))
	}
	return out
}

// SampleQueries returns q deterministic sample indexes into a dataset
// of size n, matching the paper's protocol of sampling queries from
// the dataset itself.
func SampleQueries(n, q int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed + 6))
	if q > n {
		q = n
	}
	perm := rng.Perm(n)
	idx := perm[:q]
	return idx
}

// mean is a tiny helper for the statistics tests.
func mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// Stats summarizes a generated dataset for documentation and tests.
type Stats struct {
	N       int
	AvgSize float64
}

// SetStats reports the average set size.
func SetStats(sets []tokenset.Set) Stats {
	sizes := make([]int, len(sets))
	for i, s := range sets {
		sizes[i] = len(s)
	}
	return Stats{N: len(sets), AvgSize: mean(sizes)}
}

// StringStats reports the average string length.
func StringStats(strs []string) Stats {
	sizes := make([]int, len(strs))
	for i, s := range strs {
		sizes[i] = len(s)
	}
	return Stats{N: len(strs), AvgSize: mean(sizes)}
}

// GraphStats reports the average vertex count.
func GraphStats(gs []*graph.Graph) Stats {
	sizes := make([]int, len(gs))
	for i, g := range gs {
		sizes[i] = g.N()
	}
	return Stats{N: len(gs), AvgSize: mean(sizes)}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
