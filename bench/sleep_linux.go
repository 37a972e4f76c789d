package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleepFor sleeps on a Linux timerfd, which the Go netpoller waits on like
// a socket. The runtime's own timers wake an idle process only at
// millisecond granularity (its epoll wait takes a timeout in whole
// milliseconds), which would add up to a millisecond of generator lateness
// to every open-loop operation; a timerfd wakes it within microseconds.
func sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		time.Sleep(d)
		return
	}
	f := os.NewFile(fd, "timerfd")
	defer f.Close()
	// struct itimerspec: it_interval {sec, nsec}, it_value {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := f.Read(expirations[:]); err != nil {
		time.Sleep(d)
	}
}
