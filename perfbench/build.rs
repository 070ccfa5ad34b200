//! Records `rustc --version` as `MCML_RUSTC_VERSION` for the host block
//! of `--out`: walls from different compilers are not comparable.

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty());
    if let Some(v) = version {
        println!("cargo:rustc-env=MCML_RUSTC_VERSION={v}");
    }
}
