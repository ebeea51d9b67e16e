"""Run the command-line interface as ``python -m ellspec``."""

from .cli import main

if __name__ == "__main__":
    main()
