"""Root of every error faultres reports; the CLI prints it and exits 2."""


class FaultresError(Exception):
    pass
