//go:build !linux

package main

// storeFS names the filesystem dir lives on; only Linux reports it.
func storeFS(string) string { return "unknown" }
