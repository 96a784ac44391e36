package telemetry

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"

	"adcnn/internal/cpufeat"
)

// Host describes the machine and build a benchmark report came from, so
// BENCH_*.json files are comparable across machines.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GitCommit string `json:"git_commit,omitempty"` // empty when built without VCS stamping
	// CPUFeatures lists the detected SIMD features ("sse2,avx2,..."),
	// empty off amd64 or under the noasm tag; GOAMD64 is the build's
	// microarchitecture level when the build info records one. Together
	// they attribute a benchmark run to the kernel tier it exercised.
	CPUFeatures string `json:"cpu_features,omitempty"`
	GOAMD64     string `json:"goamd64,omitempty"`
}

// HostInfo collects the current host/build metadata. The git commit
// comes from the binary's embedded build info ("+dirty" marks a
// modified tree) and is empty for plain `go test` builds.
func HostInfo() Host {
	h := Host{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		CPUFeatures: cpufeat.Detect().String(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			case "GOAMD64":
				h.GOAMD64 = s.Value
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "+dirty"
			}
			h.GitCommit = rev
		}
	}
	return h
}

// WriteJSON writes a benchmark report, indented, to path — the one
// serializer behind every BENCH_*.json.
func WriteJSON(path string, report any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
