//! The untraced binary: system allocator, no spans. End-to-end metrics
//! come from here.

fn main() -> std::process::ExitCode {
    crdt_benchmark::main()
}
