// Package prof gives a command the standard -cpuprofile and -memprofile
// flags, written with runtime/pprof and read with `go tool pprof`.
package prof

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations; an empty path turns that profile
// off.
type Flags struct {
	CPU, Mem string
}

// Register installs -cpuprofile and -memprofile on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile to this file on exit")
}

// Start begins the CPU profile, if one was asked for. The returned stop
// ends it and then writes the heap profile, if one was asked for; call it
// once, when the measured work is done.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if f.Mem != "" {
			errs = append(errs, writeHeap(f.Mem))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeap writes a heap profile of what is live after a collection.
func writeHeap(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
