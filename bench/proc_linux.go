//go:build linux

package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel kill the child the moment this process
// dies, however it dies (a timeout's SIGKILL included), so a spawned
// daemon or sweep process can never outlive its benchmark run.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
