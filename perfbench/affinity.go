package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The reference slices only measure the CPU they run on, and on a shared
// host the two vCPUs slow down independently. So where the simulation
// runs in a daemon, the benchmark places it on a known CPU and runs the
// slices there: suite and serve put the benchmark, mmxd and the echo
// process on one CPU; campaign puts backend i on CPU i, at nice 19, and
// runs its slices on each backend's CPU in turn while the campaign runs.
// Children inherit the CPU set and nice value of the thread that starts
// them.

// cpuSet is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func setAffinity(tid int, cpus []int) error {
	var set cpuSet
	for _, c := range cpus {
		set[c/64] |= 1 << (c % 64)
	}
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %v): %w", tid, cpus, e)
	}
	return nil
}

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var set cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for i, word := range set {
		for b := 0; b < 64; b++ {
			if word&(1<<b) != 0 {
				cpus = append(cpus, i*64+b)
			}
		}
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("sched_getaffinity: no CPU allowed")
	}
	return cpus, nil
}

// pinProcess confines every thread of this process, and so every thread
// and child it starts later, to cpu.
func pinProcess(cpu int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, []int{cpu}); err != nil {
			return err
		}
	}
	return nil
}

// onCPUNiced runs fn on a fresh thread confined to cpu at nice 19, which
// a child fn starts inherits with all its threads. The thread then idles
// until the benchmark exits: lowering its nice value again takes a
// privilege the benchmark may not have, and a child started with
// Pdeathsig dies with the thread that started it.
func onCPUNiced(cpu int, fn func() error) error {
	errc := make(chan error, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: no other goroutine runs at nice 19
		if err := setAffinity(0, []int{cpu}); err != nil {
			errc <- err
		} else if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
			errc <- fmt.Errorf("setpriority: %w", err)
		} else {
			errc <- fn()
		}
		select {}
	}()
	return <-errc
}

// onCPU runs fn on a thread confined to cpu for the call, so that what fn
// measures, or a child process fn starts, runs on that CPU.
func onCPU(cpu int, fn func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	all, err := allowedCPUs()
	if err != nil {
		return err
	}
	if err := setAffinity(0, []int{cpu}); err != nil {
		return err
	}
	ferr := fn()
	if err := setAffinity(0, all); err != nil {
		return err
	}
	return ferr
}
