package main

import (
	"bufio"
	"flag"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// environment is the Collective-Knowledge-style record attached to
// every results and trace file: enough to replay the entry.
type environment struct {
	GitSHA        string            `json:"git_sha"`
	GitDirty      bool              `json:"git_dirty"`
	GoVersion     string            `json:"go_version"`
	CPUModel      string            `json:"cpu_model"`
	NumCPU        int               `json:"nproc"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	GPTuneWorkers string            `json:"gptune_workers"`
	Seed          int64             `json:"seed"`
	Flags         map[string]string `json:"flags"`
	Date          string            `json:"date"`
}

func captureEnvironment(seed int64) environment {
	env := environment{
		GitSHA:        "unknown",
		GoVersion:     runtime.Version(),
		CPUModel:      cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GPTuneWorkers: os.Getenv("GPTUNE_WORKERS"),
		Seed:          seed,
		Flags:         map[string]string{},
		Date:          time.Now().UTC().Format(time.RFC3339),
	}
	// The go tool stamps the revision when the build happens inside a
	// git work tree; a plain source checkout has none and stays "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.GitSHA = s.Value
			case "vcs.modified":
				env.GitDirty = s.Value == "true"
			}
		}
	}
	flag.VisitAll(func(f *flag.Flag) { env.Flags[f.Name] = f.Value.String() })
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
