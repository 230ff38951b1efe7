"""`python -m asepx`: the `asepx` command line without an installed script."""

from .cli import main

if __name__ == "__main__":
    main()
