//! One traced benchmark job on the counting allocator; see `run.py`.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAllocator = perfbench::alloc::CountingAllocator;

fn main() -> std::process::ExitCode {
    perfbench::main(true)
}
