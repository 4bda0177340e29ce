package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuTicks are the machine's CPU clock ticks from the first line of
// /proc/stat: busy is every tick not idle or waiting on I/O, and steal
// the part of busy in which the hypervisor ran another guest on a CPU
// this machine wanted to run on.
type cpuTicks struct{ busy, steal uint64 }

// readTicks returns the current totals, or zero ticks when /proc/stat
// cannot be read (then no time is counted as stolen).
func readTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7: // steal
			t.steal += v
			t.busy += v
		default:
			t.busy += v
		}
	}
	return t
}

func (t cpuTicks) sub(u cpuTicks) cpuTicks {
	return cpuTicks{busy: t.busy - u.busy, steal: t.steal - u.steal}
}
func (t cpuTicks) add(u cpuTicks) cpuTicks {
	return cpuTicks{busy: t.busy + u.busy, steal: t.steal + u.steal}
}

// minTicks is the fewest busy ticks (a tick is usually 10 ms) over
// which a stolen share is read; over fewer, one tick more or less would
// swing it, and nothing is counted as stolen.
const minTicks = 20

// stolen is the share of busy ticks the hypervisor took.
func (t cpuTicks) stolen() float64 {
	if t.busy < minTicks || t.steal > t.busy {
		return 0
	}
	return float64(t.steal) / float64(t.busy)
}
