"""``python -m arcmellin``: the ``arcmellin`` command without the installed script."""

from .cli import main

if __name__ == "__main__":
    main()
