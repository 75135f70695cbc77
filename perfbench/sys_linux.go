package main

import (
	"fmt"
	"syscall"
	"time"
)

func platformCheck() error { return nil }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext2/ext3/ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x2fc12fc1:
		return "zfs"
	case 0x01021994:
		return "tmpfs (memory-backed)"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("statfs magic %#x", uint32(st.Type))
}
