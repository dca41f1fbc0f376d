//go:build checked

package deps

// checked turns on the protocol assertions of the checked build: drain
// panics on a held (unpinned) message whose target node holds no pin,
// or whose delivery sets no new flag.
const checked = true
