//go:build !linux

package main

import "os/exec"

// bindToParent is a no-op where the kernel has no parent-death signal; the
// benchmark still waits for every measuring process it starts.
func bindToParent(*exec.Cmd) {}
