//go:build !go1.23

package des

// The process handoff in des.go runs on iter.Pull coroutines, which arrived
// in Go 1.23. This identifier is left undefined so that an older toolchain
// stops here with a message naming the version it needs.
var _ = des_requires_Go_1_23_or_later_for_iter_Pull
