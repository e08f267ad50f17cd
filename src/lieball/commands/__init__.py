"""One module per `lieball` subcommand, imported by `cli.main` only when its
subcommand runs.

Each module exposes `run(args) -> cli.Report`: `args` is the parsed
namespace.  A usage error that parsing cannot find, such as an --m beyond
the `weyl` listing's bound, is raised as `cli.UsageError`, which `cli.main`
prints through the subcommand's argparse parser.  A module
imports the route it runs, so a cold invocation compiles and loads one
handler and one route, not every subcommand's.  The route's names are
imported when the handler runs, not when its module loads, so a handler
always calls what its route module holds at that moment.
"""
