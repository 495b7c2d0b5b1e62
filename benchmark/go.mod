// The service benchmark is a module of its own because the contract it is
// written to wants a compiled benchmark to be a package of its own with its
// own build file. The root module's `go build ./...`, `go vet ./...` and
// `go test ./...` therefore never see it: run them here by hand after an
// internal API changes. The import path keeps the `blog/` prefix, which is
// what lets it import `blog/internal/...`; the replace directive points at
// the checkout it sits in.
module blog/benchmark

go 1.24

require blog v0.0.0

replace blog => ../
