package main

import (
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity CPU mask (up to 1024 CPUs).
type cpuSet [16]uint64

func getAffinity() (cpuSet, error) {
	var s cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); errno != 0 {
		return s, errno
	}
	return s, nil
}

// setAffinity pins thread tid (0 = the calling thread) to s.
func setAffinity(tid int, s cpuSet) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); errno != 0 {
		return errno
	}
	return nil
}

// cpuPlacement keeps the driver on one CPU and, unless a workload needs
// every CPU for tierd, tierd on the others.
// Left to the scheduler, the driver's and tierd's threads settled into a
// different placement on each run, and closed-loop quote throughput came
// out in two modes (~6.5k and ~10k quotes/s on 2 vCPUs). With only the
// driver pinned, tierd's threads still ran on the driver's CPU too: in 5
// alternating pairs of serve runs tierd spent 16-55% more CPU per quote
// than with the two on separate CPUs. Go sizes tierd's GOMAXPROCS, and
// tierd its reprice workers, to its mask, so on 2 vCPUs tierd runs on
// one, except on reprice-wide (see workload.tierdAllCPUs). Thread affinity is inherited across fork, so each tierd start
// briefly sets the forking thread's mask to tierd's.
type cpuPlacement struct {
	all, driver, tierd cpuSet
	pinned             bool
}

// pinDriver moves every thread of this process to the lowest CPU it may
// run on and leaves the rest to tierd. With a single CPU there is nothing
// to separate.
func pinDriver() (*cpuPlacement, error) {
	all, err := getAffinity()
	if err != nil {
		return nil, err
	}
	p := &cpuPlacement{all: all, driver: all, tierd: all}
	var n, first int
	first = -1
	for i := 0; i < len(all)*64; i++ {
		if all[i/64]&(1<<(i%64)) != 0 {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	if n < 2 {
		return p, nil
	}
	p.driver = cpuSet{}
	p.driver[first/64] = 1 << (first % 64)
	p.tierd[first/64] &^= 1 << (first % 64)
	if err := setAllThreads(p.driver); err != nil {
		return nil, err
	}
	p.pinned = true
	return p, nil
}

// unpin lets the driver run on every CPU again (for the in-process
// traced replay, which has no tierd beside it).
func (p *cpuPlacement) unpin() error {
	if p == nil || !p.pinned {
		return nil
	}
	p.pinned = false
	return setAllThreads(p.all)
}

// setAllThreads applies s to every thread of this process. Threads
// started later inherit the mask of the thread that starts them, so two
// passes cover a thread started during the first.
func setAllThreads(s cpuSet) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, s); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

// tierdMask is the CPUs tierd runs on: every CPU, or every CPU but the
// driver's.
func (p *cpuPlacement) tierdMask(allCPUs bool) cpuSet {
	if allCPUs {
		return p.all
	}
	return p.tierd
}

// tierdCPUs is the number of CPUs tierd runs on.
func (p *cpuPlacement) tierdCPUs(allCPUs bool) int {
	n := 0
	for _, w := range p.tierdMask(allCPUs) {
		n += bits.OnesCount64(w)
	}
	return n
}

// start runs start (an exec.Cmd's Start) from a thread whose mask is
// tierd's CPUs, so the child inherits them.
func (p *cpuPlacement) start(start func() error, allCPUs bool) error {
	if p == nil || !p.pinned {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, p.tierdMask(allCPUs)); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, p.driver); err == nil {
		err = rerr
	}
	return err
}
