"""``python -m firmglass``: the command-line interface of :mod:`firmglass.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
