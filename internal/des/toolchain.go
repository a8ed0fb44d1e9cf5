//go:build !go1.23

package des

// A process that binds (des.go) runs on an iter.Pull coroutine, which
// arrived in Go 1.23. This identifier is left undefined so that an older
// toolchain stops here with a message naming the version it needs.
var _ = des_requires_Go_1_23_or_later_for_iter_Pull
