// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the repository's `go build ./...` and
// `go test ./...`; the replace points at the checkout it sits in.
module brisk/benchmark

go 1.22

require brisk v0.0.0

replace brisk => ../
