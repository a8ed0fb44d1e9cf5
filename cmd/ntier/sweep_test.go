package main

import "testing"

func TestSweepRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "sweep", []flagCase{
		{[]string{"-hw", "1/2/1"}, "-hw"},
		{[]string{"-hw", "a/2/1/2"}, "-hw"},
		{[]string{"-soft", "400-15"}, "-soft"},
		{[]string{"-soft", "400-15-6,junk"}, "-soft"},
		{[]string{"-wl", "1:2"}, "-wl"},
		{[]string{"-wl", "5:1:1"}, "-wl"},
		{[]string{"-wl", "x,y"}, "-wl"},
		{[]string{"-vary", "threads"}, "-sizes"},
		{[]string{"-vary", "bogus", "-sizes", "4,8"}, "-vary"},
		{[]string{"-resume"}, "-state-dir"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	})
}
