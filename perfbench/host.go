package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// host is the fingerprint printed with every run, so a number is never
// read without the machine that produced it.
type host struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Go          string `json:"go"`
	CPU         string `json:"cpu"`
	DefaultSeed uint64 `json:"default_seed"`
}

func hostInfo() host {
	return host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Go:          runtime.Version(),
		CPU:         cpuModel(),
		DefaultSeed: defaultSeed,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or reports the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
