// Package experiments contains one driver per table and figure of the
// paper's evaluation (§VII) plus the §VI ML study and three ablations
// (ablation.go). Each returns structured rows (consumed by tests
// and benchmarks) and can render itself as an aligned text table. Absolute
// numbers are machine- and scale-dependent; the drivers exist to reproduce
// the *shape* of each result — who wins, by what ratio, where crossovers
// fall.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"picasso/internal/gpusim"
	"picasso/internal/workload"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Build controls instance construction (stride/truncation for speed).
	Build workload.BuildOptions
	// Seeds are the RNG seeds averaged over (the paper uses five).
	Seeds []int64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// DeviceBytes is the simulated accelerator budget. The paper's A100
	// has 40 GB against 2.1M-vertex instances; the default scales the
	// budget to our instance sizes so the Fig. 2 ceiling and the OOM
	// behavior appear at the same *relative* position.
	DeviceBytes int64
	// MaxInstances caps how many instances of each class a driver touches
	// (0 = all); used to keep CI runs quick.
	MaxInstances int
}

// Quick returns the configuration used by tests and the default CLI run:
// truncated instances, three seeds.
func Quick() Config {
	return Config{
		Build:        workload.QuickBuild(),
		Seeds:        []int64{1, 2, 3},
		DeviceBytes:  200e6,
		MaxInstances: 4,
	}
}

// Full returns the configuration for a long benchmarking run: full
// instances, the paper's five seeds.
func Full() Config {
	return Config{
		Build:       workload.DefaultBuild(),
		Seeds:       []int64{1, 2, 3, 4, 5},
		DeviceBytes: 800e6,
	}
}

// device builds a fresh simulated accelerator for a run.
func (c Config) device() *gpusim.Device {
	return gpusim.NewDevice("sim-A100", c.DeviceBytes, c.Workers)
}

// limit applies MaxInstances to an instance list.
func (c Config) limit(insts []workload.Instance) []workload.Instance {
	if c.MaxInstances > 0 && len(insts) > c.MaxInstances {
		return insts[:c.MaxInstances]
	}
	return insts
}

// newTable returns a tabwriter for aligned output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// meanInt averages integer samples as float.
func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func meanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fmtCount renders large counts with thousands separators.
func fmtCount(n int64) string {
	s := fmt.Sprintf("%d", n)
	if n < 0 {
		return s
	}
	out := make([]byte, 0, len(s)+len(s)/3)
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
