package repro

// RunInterpreted hands the external tests the interpreted reference
// implementation the compiled path is checked against.
var RunInterpreted = (*Graph).runInterpreted
