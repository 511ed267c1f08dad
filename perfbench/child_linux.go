package main

import (
	"os/exec"
	"syscall"
)

// bindToParent makes the kernel kill the measuring process if the
// benchmark dies first, so no measuring process outlives it.
func bindToParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
