//! Empty stand-in for `serde`: `syd-types` declares the dependency (with
//! the `derive` feature) and no source file uses it.
