"""`python -m cycloeta`: the same command line as the `cycloeta` script."""

from .cli import main

if __name__ == "__main__":
    main()
