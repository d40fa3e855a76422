//go:build !linux

package main

import "os/exec"

// dieWithParent is a Linux facility (see proc_linux.go); elsewhere the
// deferred stops are the only cleanup.
func dieWithParent(*exec.Cmd) {}
