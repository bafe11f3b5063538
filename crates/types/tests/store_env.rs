//! `EAR_STORE` is outside input: a value the parser does not know — a typo,
//! or the retired `file` engine — must panic, never fall back to a default.
//! Alone in this binary because it mutates the process environment.

use ear_types::StoreBackend;

#[test]
#[should_panic(expected = "EAR_STORE must be `memory` or `extent`, got `file`")]
fn retired_file_value_panics_like_any_typo() {
    std::env::set_var("EAR_STORE", "file");
    let _ = StoreBackend::from_env();
}
