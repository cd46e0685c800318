fn main() -> std::process::ExitCode {
    gillis_benchmark::cli::main()
}
