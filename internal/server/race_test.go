//go:build race

package server

// Under the race detector sync.Pool drops a quarter of its Puts on
// purpose, so a response buffer is regrown now and then and the bytes a
// hit allocates are no longer a constant.
func init() { poolIsLossy = true }
