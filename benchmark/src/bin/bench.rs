//! The untraced binary: system allocator, end-to-end metrics.

fn main() -> std::process::ExitCode {
    heimdall_benchmark::cli::main(false)
}
