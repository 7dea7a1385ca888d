"""`python -m framesim`: the same command line as the `framesim` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
