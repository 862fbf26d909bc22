package main

import (
	"os"
	"path/filepath"
	"strings"
)

// filesystemOf names the filesystem type holding path, from the longest
// matching mount point in /proc/mounts; "unknown" where that file is
// absent.
func filesystemOf(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	best, fstype := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if path == mnt || strings.HasPrefix(path, strings.TrimSuffix(mnt, "/")+"/") {
			if len(mnt) > best {
				best, fstype = len(mnt), f[2]
			}
		}
	}
	return fstype
}
