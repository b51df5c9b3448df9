package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// metricDecl is one metric declaration of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json as bench reads it: the declared workloads and
// metrics are the only names a run may emit.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json from the working directory (a run from the
// repository root) or its parent (go test runs in bench/).
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", lastErr)
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// decl finds a metric's declaration and whether it is a per-layer one.
func (s *benchSpec) decl(name string) (d metricDecl, perLayer, ok bool) {
	for _, d := range s.EndToEnd {
		if d.Name == name {
			return d, false, true
		}
	}
	for _, d := range s.PerLayer {
		if d.Name == name {
			return d, true, true
		}
	}
	return metricDecl{}, false, false
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Detail carries what qualifies the metrics: sample counts, the tail
	// percentile used, the min/max segment rate, the frozen operation counts.
	Detail map[string]any `json:"detail"`
	// Digests are the SHA-256 digests of the run's inputs and outputs; for
	// seed 1 they are compared with bench/expected/seed1.json.
	Digests  map[string]string `json:"digests"`
	Failures []string          `json:"failures,omitempty"`

	spec *benchSpec
}

func newResult(spec *benchSpec, cfg config) *runResult {
	return &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: make(map[string]metricValue), Detail: map[string]any{"seconds": cfg.seconds},
		Digests: make(map[string]string), spec: spec,
	}
}

// set records a declared metric; an undeclared name is a bug in bench. A
// run reports one metric family — end-to-end without tracing, per-layer
// with — so a value of the other family is dropped here and workload code
// need not branch on it.
func (r *runResult) set(name string, value float64) {
	d, perLayer, ok := r.spec.decl(name)
	if !ok {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	if perLayer == r.Trace {
		r.Metrics[name] = metricValue{Value: value, Unit: d.Unit}
	}
}

// fail counts one failed operation (an error, a non-200, or an oracle
// mismatch) and keeps the first few messages.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish adds the figures every workload reports alike and checks the run's
// metric family is complete. A per-layer metric a workload does not exercise
// reads 0: the layer did no work there.
func (r *runResult) finish() error {
	r.set("bench.peak_rss_mb", peakRSSMB())
	r.set("bench.failed_share", ratio(float64(r.Failed), float64(r.Attempted)))
	want := r.spec.EndToEnd
	if r.Trace {
		want = r.spec.PerLayer
	}
	for _, d := range want {
		if _, ok := r.Metrics[d.Name]; ok {
			continue
		}
		if !r.Trace {
			return fmt.Errorf("bench: workload %s did not report %s", r.Workload, d.Name)
		}
		r.Metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	r.Correct = r.Failed == 0
	return nil
}

// envBlock is the environment every result file carries.
type envBlock struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
}

func readEnv() envBlock {
	return envBlock{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
		Clients:    serveClients(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git without running git; a checkout that is
// not a repository reports "unknown".
func gitCommit() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(root + "/.git/HEAD")
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			if b, err := os.ReadFile(root + "/.git/" + ref); err == nil {
				return strings.TrimSpace(string(b))
			}
			return ref
		}
		return h
	}
	return "unknown"
}

// serveClients is the closed-loop client count of serve-mixed.
func serveClients() int { return min(runtime.NumCPU(), 4) }

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
