package queuing

import (
	"testing"
	"time"
)

func TestLittle(t *testing.T) {
	if got := Little(100, 50*time.Millisecond); got != 5 {
		t.Errorf("Little(100, 50ms) = %v, want 5", got)
	}
}

func TestForcedFlow(t *testing.T) {
	if got := VisitRatio(240, 100); got != 2.4 {
		t.Errorf("VisitRatio(240, 100) = %v, want 2.4", got)
	}
	if got := VisitRatio(240, 0); got != 0 {
		t.Errorf("VisitRatio with X=0 should be 0, got %v", got)
	}
}

func TestValidators(t *testing.T) {
	if err := CheckLittle(5, 100, 50*time.Millisecond, 0.01); err != nil {
		t.Errorf("consistent Little data rejected: %v", err)
	}
	if err := CheckLittle(8, 100, 50*time.Millisecond, 0.01); err == nil {
		t.Error("inconsistent Little data accepted")
	}
}
