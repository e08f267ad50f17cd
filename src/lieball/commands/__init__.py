"""One module per `lieball` subcommand, imported by `cli.main` only when its
subcommand runs.

Each module exposes `run(args, parser) -> cli.Report`: `args` is the parsed
namespace and `parser` the subcommand's parser, for usage errors.  A module
imports the route it runs, so a cold invocation compiles and loads one
handler and one route, not every subcommand's.  The route's names are
imported when the handler runs, not when its module loads, so a handler
always calls what its route module holds at that moment.
"""
