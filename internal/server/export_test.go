package server

// WriteError exposes the error → status/kind mapping to the external
// test package (the kind-table walk in wire_compat_test.go).
var WriteError = writeError
