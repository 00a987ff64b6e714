//! The traced binary: counting allocator, per-layer metrics.

use heimdall_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    heimdall_benchmark::cli::main(true)
}
