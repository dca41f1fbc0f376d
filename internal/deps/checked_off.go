//go:build !checked

package deps

// checked turns on the protocol assertions of the checked build
// (-tags checked). Off, they are constant-false branches the compiler
// removes.
const checked = false
