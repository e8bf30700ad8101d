package stream

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/parttest"
	"hep/internal/pstate"
)

// kernelKs are the partition counts the kernel is checked at: one word, the
// word edges 63/64/65, and several multi-word tables.
var kernelKs = [...]int{1, 63, 64, 65, 128, 200, 256}

// kernelLambdas are the balance weights the kernel is checked at; the
// exactness argument needs λ ≥ 0 and covers λ = 0 (pure replica affinity).
var kernelLambdas = [...]float64{DefaultLambda, 0, 0.5, 1, 3, 1e-3, 1e3}

// checkKernel builds one random scoring state from its arguments and checks
// bestHDRF against the full-scan oracle parttest.RefBestHDRF:
//
//   - ki picks k from kernelKs and lam the balance weight from
//     kernelLambdas;
//   - mode picks the loads: 0 draws them from {0,1,2} against a capacity of
//     1..3, so ties and partitions at capacity are common; 1 draws them
//     from [0,1000) with no capacity bound; 2 puts every partition at or
//     over capacity, so there is no admissible anchor (Loads.ArgMin is not
//     a candidate) and the answer must be -1; 3 gives every partition the
//     same load;
//   - density picks how many partitions host u and v; same makes the edge
//     a self-loop (u = v, one mask);
//   - du and dv are the degrees, and dv = 0 means d(v) = d(u), so g(u) = g(v).
func checkKernel(t *testing.T, ki, mode, lam, density uint8, same bool, du, dv uint16, seed int64) {
	k := kernelKs[int(ki)%len(kernelKs)]
	lambda := kernelLambdas[int(lam)%len(kernelLambdas)]
	rng := rand.New(rand.NewSource(seed))
	tab := pstate.NewTable(2, k)
	ref := parttest.NewRefState(2, k)
	u, v := graph.V(0), graph.V(1)
	if same {
		v = u
	}
	dens := [...]float64{0, 0.02, 0.1, 0.5, 1}[int(density)%5]
	for p := 0; p < k; p++ {
		for _, x := range []graph.V{u, v} {
			if rng.Float64() < dens {
				tab.Add(x, p)
				ref.Reps[p].Set(x)
			}
		}
	}
	var capacity int64
	loads := pstate.NewLoads(k)
	switch mode % 4 {
	case 0:
		capacity = 1 + rng.Int63n(3)
	case 1:
		capacity = math.MaxInt64
	case 2:
		capacity = 1 + rng.Int63n(50)
	case 3:
		capacity = 1 + rng.Int63n(100)
	}
	level := rng.Int63n(capacity)
	for p := 0; p < k; p++ {
		var c int64
		switch mode % 4 {
		case 0:
			c = rng.Int63n(3)
		case 1:
			c = rng.Int63n(1000)
		case 2:
			c = capacity + rng.Int63n(2)
		case 3:
			c = level
		}
		loads.Bulk(p, c)
		ref.Counts[p] = c
	}
	d1 := int32(1 + int(du)%1000)
	d2 := d1
	if dv != 0 {
		d2 = int32(1 + int(dv)%1000)
	}
	want := parttest.RefBestHDRF(ref, ref, u, v, d1, d2, lambda, capacity)
	got := bestHDRF(tab, loads, u, v, d1, d2, lambda, capacity)
	if got != want {
		t.Fatalf("k=%d mode=%d λ=%g dens=%g same=%v d=(%d,%d) seed=%d: kernel %d, full scan %d",
			k, mode%4, lambda, dens, same, d1, d2, seed, got, want)
	}
	if mode%4 == 2 && got != -1 {
		t.Fatalf("k=%d: every partition full, kernel returned %d, want -1", k, got)
	}
}

// FuzzHDRFKernel checks the class-argmin kernel against the full-scan oracle
// on random replica masks and loads (see checkKernel for the knobs). The
// seed corpus is under testdata/fuzz/FuzzHDRFKernel.
func FuzzHDRFKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, ki, mode, lam, density uint8, same bool, du, dv uint16, seed int64) {
		checkKernel(t, ki, mode, lam, density, same, du, dv, seed)
	})
}

// TestHDRFKernelMatchesFullScan sweeps every k, load mode, λ and mask
// density of checkKernel with a few random states each.
func TestHDRFKernelMatchesFullScan(t *testing.T) {
	seed := int64(0)
	for ki := range kernelKs {
		for mode := 0; mode < 4; mode++ {
			for lam := range kernelLambdas {
				for density := 0; density < 5; density++ {
					for rep := 0; rep < 3; rep++ {
						seed++
						checkKernel(t, uint8(ki), uint8(mode), uint8(lam), uint8(density),
							rep == 2, uint16(seed*7), uint16(rep), seed)
					}
				}
			}
		}
	}
}

// TestRunHDRFGoldenAssignmentHash pins sequential RunHDRF on the TW stand-in
// at k=32 to a hash recorded once (FNV-64a over u, v, partition in delivery
// order) from the full candidate-scan scorer, before class-argmin scoring
// replaced it. Run it under go test -cpu 1,2,4: the sequential path must
// not depend on GOMAXPROCS.
func TestRunHDRFGoldenAssignmentHash(t *testing.T) {
	const golden uint64 = 0x3a9b76c376771b20
	g := gen.MustDataset("TW").Build(0.25)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	res := part.NewResult(g.NumVertices(), 32)
	sum := fnv.New64a()
	var buf [12]byte
	res.Sink = part.SinkFunc(func(u, v graph.V, p int) {
		binary.LittleEndian.PutUint32(buf[0:], u)
		binary.LittleEndian.PutUint32(buf[4:], v)
		binary.LittleEndian.PutUint32(buf[8:], uint32(p))
		sum.Write(buf[:])
	})
	if err := RunHDRF(g, res, deg, DefaultLambda, 1, m); err != nil {
		t.Fatal(err)
	}
	if got := sum.Sum64(); got != golden {
		t.Fatalf("assignment hash %#x, want %#x", got, golden)
	}
}
