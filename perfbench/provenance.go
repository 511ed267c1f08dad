package main

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
)

// provenance stamps a result with the machine, toolchain, source revision
// and run parameters it came from. Everything is read locally.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	N          int    `json:"n"`
	Workers    int    `json:"workers"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
}

func provenanceOf(w workload, seed uint64) provenance {
	p := provenance{
		Workload:   w.name,
		Seed:       seed,
		N:          w.n,
		Workers:    workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Modified:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

func (p provenance) json() string {
	b, _ := json.Marshal(p) // a struct of strings and ints always marshals
	return string(b)
}
