//! One untraced benchmark job on the system allocator; see `run.py`.

fn main() -> std::process::ExitCode {
    perfbench::main(false)
}
