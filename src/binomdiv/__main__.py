import sys

from .args import main

if __name__ == "__main__":
    sys.exit(main())
