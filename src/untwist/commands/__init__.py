"""One module per subcommand, each with `run(args)` returning the exit code.

`untwist.cli.main` imports only the module of the subcommand it dispatches,
so a run compiles and loads the code of that subcommand alone.
"""
