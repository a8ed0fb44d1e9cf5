package experiment

// ExecutionOnly exposes the declared execution-only fields to the
// fingerprint leaf test, which imports chaos and so runs outside the
// package.
var ExecutionOnly = executionOnly
