"""`python -m lamsys ...` runs the command-line interface of `lamsys.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
