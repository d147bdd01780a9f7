package koala

// SetDebugCheck turns the scheduler's invariant checker on or off for the
// package's external tests and returns the previous setting.
func SetDebugCheck(on bool) (prev bool) {
	prev, debugCheck = debugCheck, on
	return prev
}
