package core

// SetSelfRebuildHook installs f as Apply's self-rebuild hook and returns the
// function that restores the previous one.
func SetSelfRebuildHook(f func(holds bool)) (restore func()) {
	old := onSelfRebuild
	onSelfRebuild = f
	return func() { onSelfRebuild = old }
}
