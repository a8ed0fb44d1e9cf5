package main

import "testing"

func TestTuneRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "tune", []flagCase{
		{[]string{"-hw", "1/2/1"}, "-hw"},
		{[]string{"-soft0", "400-15"}, "-soft0"},
		{[]string{"-resume"}, "-state-dir"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	})
}
