package main

// host.go prints the run record's host fingerprint, so a number is
// always read with the machine it ran on.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func printHost(root, stateDir string) {
	fmt.Printf("host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s statefs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit(root), fsType(stateDir))
}

// printPressure prints the host's CPU and IO pressure (Linux PSI, share
// of the last 10 s that tasks stalled), so a run measured while
// neighbours loaded the machine can be told apart from a slow commit.
func printPressure(workload string) {
	fmt.Printf("pressure %s cpu_some=%s io_some=%s io_full=%s\n", workload,
		psiAvg10("cpu", "some"), psiAvg10("io", "some"), psiAvg10("io", "full"))
}

// psiAvg10 reads one avg10 figure from /proc/pressure/<resource>.
func psiAvg10(resource, kind string) string {
	data, err := os.ReadFile("/proc/pressure/" + resource)
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) > 1 && fields[0] == kind {
			if v, ok := strings.CutPrefix(fields[1], "avg10="); ok {
				return v + "%"
			}
		}
	}
	return "unknown"
}

// sampleSteal measures the host's CPU steal share (time the hypervisor
// ran other guests while this machine's CPUs wanted to run, over all CPU
// time) in consecutive windows of the given width from start, and sends
// the shares once stop is closed, the last window's up to then. Steal is
// load from neighbouring machines only: this process cannot cause it.
func sampleSteal(start time.Time, width time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var shares []float64
		prevSteal, prevTotal, ok := readSteal()
		for k := 1; ok; k++ {
			stopped := false
			select {
			case <-stop:
				stopped = true
			case <-time.After(time.Until(start.Add(time.Duration(k) * width))):
			}
			st, total, ok2 := readSteal()
			if !ok2 {
				break
			}
			switch {
			case total > prevTotal:
				shares = append(shares, float64(st-prevSteal)/float64(total-prevTotal))
			case !stopped:
				shares = append(shares, 0)
			}
			if stopped {
				out <- shares
				return
			}
			prevSteal, prevTotal = st, total
		}
		<-stop
		out <- shares
	}()
	return out
}

// readSteal returns the steal and total CPU ticks of /proc/stat's
// aggregate line.
func readSteal() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit resolves HEAD when the checkout is a git work tree; an exported
// tree (no .git) reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
