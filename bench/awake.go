package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// On a virtual machine an idle vCPU halts, and waking it goes through
// the host: a request that finds the server idle pays that wake-up a
// dozen times (timer, socket and goroutine hand-offs across two vCPUs),
// 1-3 ms in all — and how much depends on the host's adaptive halt
// polling, so whole runs of the open-loop workload came out in a fast or
// a slow mode (p50 6.4 or 9 ms, 23% spread over ten runs).  keepAwake
// removes the halts the way idle=poll or a latency-tuned host profile
// does: a child process spins one thread per CPU at the lowest priority,
// so it takes no time from the server or the load generator but the
// vCPUs never go idle.  With it the same ten runs spread 6%.

// keepAwake starts the spinning child and returns the function that
// stops it and waits for it.  The child also exits by itself as soon as
// this process does, however it dies: it watches its standard input,
// whose other end only this process holds.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spin")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		stdin.Close()
		cmd.Wait() // the child exits 0 on end of input; nothing to report
	}, nil
}

// spin is the child: one busy thread per CPU at nice 19, until standard
// input closes.
func spin() {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			// On Linux this sets the calling thread's priority only,
			// which is what is wanted: the spinners yield to everything.
			if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
				fmt.Fprintln(os.Stderr, "bench: spinner keeps normal priority:", err)
				return
			}
			for {
			}
		}()
	}
	io.Copy(io.Discard, os.Stdin)
}
